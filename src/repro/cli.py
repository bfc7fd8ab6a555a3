"""Command-line interface: scan CSV lakes for homographs.

Installed as the ``domainnet`` console script::

    domainnet scan path/to/csvs --top 25
    domainnet scan path/to/csvs --measure lcc
    domainnet scan path/to/csvs --json > result.json
    domainnet scan path/to/csvs --meanings --errors
    domainnet scan path/to/csvs --no-prune
    domainnet scan path/to/csvs --jobs 4
    domainnet scan path/to/csvs --jobs 4 --keep-pool
    domainnet scan path/to/csvs --jobs 4 --serve-pool betweenness,lcc
    domainnet scan path/to/csvs --measure skeleton_betweenness
    domainnet stats path/to/csvs
    domainnet generate sb out/dir
    domainnet generate tus out/dir --seed 7
    domainnet forge tus out/dir --forgeries 10 --styles greek,leet
    domainnet snapshot build path/to/csvs -o snap/ --warm lcc
    domainnet snapshot info snap/
    domainnet serve --snapshot snap/ --save-on-exit
    domainnet serve --snapshot snap/ --record-oplog
    domainnet cluster snap/ --replicas 3 --port 8080

``scan`` builds a :class:`repro.api.HomographIndex` over the lake and
runs the full Figure-4 pipeline (graph construction, sampled
betweenness by default, ranking).  ``--json`` emits the machine-readable
``DetectResponse`` payload instead of the human listing; feed it back
with ``repro.DetectResponse.from_json``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .api import HomographIndex, available_measures
from .datalake.catalog import compute_statistics, format_statistics_table
from .datalake.csv_io import dump_lake, load_lake
from .perf import BACKEND_NAMES, ExecutionConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domainnet",
        description="Homograph detection for data lakes (DomainNet).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    scan = commands.add_parser(
        "scan", help="rank likely homographs in a directory of CSV files"
    )
    scan.add_argument("directory", help="directory containing *.csv tables")
    scan.add_argument("--top", type=int, default=25,
                      help="number of candidates to print (default 25)")
    scan.add_argument("--measure", choices=available_measures(),
                      default="betweenness")
    scan.add_argument("--sample", type=int, default=None,
                      help="BC source samples (default: exact for small "
                           "graphs, 1%% of nodes for large ones)")
    scan.add_argument("--seed", type=int, default=0)
    scan.add_argument("--json", action="store_true",
                      help="emit the top candidates as a DetectResponse "
                           "JSON payload instead of the human listing")
    scan.add_argument("--no-prune", action="store_true",
                      help="keep values that occur only once in the lake "
                           "(disables the paper's candidate pruning)")
    scan.add_argument("--meanings", action="store_true",
                      help="estimate the number of meanings per candidate")
    scan.add_argument("--errors", action="store_true",
                      help="flag homographs that look like data errors")
    scan.add_argument("--jobs", type=int, default=None,
                      help="worker processes for scoring (default: serial; "
                           ">1 fans Brandes sources / LCC chunks across "
                           "cores via shared memory)")
    scan.add_argument("--backend", choices=BACKEND_NAMES, default="auto",
                      help="execution backend (default auto: process when "
                           "--jobs > 1, serial otherwise)")
    scan.add_argument("--chunk-size", type=int, default=None,
                      help="work items per parallel task (default: derived "
                           "from the job count)")
    scan.add_argument("--keep-pool", action="store_true",
                      help="keep one persistent worker pool (and the "
                           "shared-memory graph export) warm across every "
                           "scoring call of this scan; implies a process "
                           "backend when --jobs/--backend leave it unset")
    scan.add_argument("--serve-pool", metavar="MEASURES", default=None,
                      help="comma-separated measures (e.g. "
                           "'betweenness,lcc') scored as one batch on the "
                           "shared pool via detect_many; implies "
                           "--keep-pool and overrides --measure")

    serve = commands.add_parser(
        "serve",
        help="serve one or more CSV lakes over HTTP "
             "(detect / ranking / tables / async jobs)",
    )
    serve.add_argument("directories", nargs="*", metavar="DIR",
                       help="directories of *.csv tables; each mounts as "
                            "a lake named after its basename")
    serve.add_argument("--lake", action="append", default=None,
                       metavar="NAME=DIR",
                       help="mount DIR as the lake NAME (repeatable; "
                            "combines with positional directories)")
    serve.add_argument("--snapshot", action="append", default=None,
                       metavar="PATH",
                       help="mount a snapshot directory written by "
                            "'domainnet snapshot build' (repeatable; "
                            "mounts under its basename, skipping the "
                            "graph build and pre-warming the score cache)")
    serve.add_argument("--save-on-exit", action="store_true",
                       help="on shutdown, write each snapshot-mounted "
                            "lake (tables, graph, warmed rankings) back "
                            "to its snapshot directory atomically")
    serve.add_argument("--job-dir", default=None, metavar="DIR",
                       help="persist finished async-job payloads to DIR "
                            "and restore them on restart (default: the "
                            "first snapshot's jobs/ directory, when "
                            "--snapshot is used)")
    serve.add_argument("--auth-token", default=None,
                       help="require 'Authorization: Bearer TOKEN' on "
                            "every route except /healthz (default: the "
                            "DOMAINNET_TOKEN environment variable)")
    serve.add_argument("--job-ttl", type=float, default=None,
                       help="seconds a finished async job stays pollable "
                            "at /jobs/<id> (default 300)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port; 0 picks an ephemeral port and "
                            "prints it (default 8080)")
    serve.add_argument("--jobs", type=int, default=None,
                       help="worker processes for scoring (default: serial)")
    serve.add_argument("--backend", choices=BACKEND_NAMES, default="auto",
                       help="execution backend (default auto)")
    serve.add_argument("--chunk-size", type=int, default=None,
                       help="work items per parallel task")
    serve.add_argument("--keep-pool", action="store_true",
                       help="keep one persistent worker pool (and the "
                            "shared-memory graph export) warm across "
                            "requests; implies a process backend when "
                            "--jobs/--backend leave it unset")
    serve.add_argument("--no-prune", action="store_true",
                       help="keep values that occur only once in the lake")
    serve.add_argument("--max-concurrent", type=int, default=None,
                       help="compute requests admitted at once before "
                            "503s start (default 32)")
    serve.add_argument("--retry-after", type=int, default=None,
                       help="Retry-After seconds sent with 503 "
                            "rejections (default 1)")
    serve.add_argument("--lake-quota", type=int, default=None,
                       metavar="N",
                       help="concurrent compute requests admitted per "
                            "lake (default: each lake's fair share, "
                            "max-concurrent // number of lakes with a "
                            "floor of 1; 0 disables per-lake fairness, "
                            "restoring the single global gate)")
    serve.add_argument("--request-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-connection socket timeout: stalled "
                            "clients get a 408 and their connection "
                            "closed (default 60)")
    serve.add_argument("--record-oplog", action="store_true",
                       help="record every applied table mutation in an "
                            "oplog.jsonl inside each snapshot mount and "
                            "serve it at GET /lakes/<name>/oplog "
                            "(requires --snapshot; an existing oplog is "
                            "replayed into the index at startup, so a "
                            "restarted primary recovers mutations the "
                            "snapshot predates)")

    cluster = commands.add_parser(
        "cluster",
        help="serve one snapshot from N replica processes behind a "
             "load-balancing router (reads fan out, writes pin to "
             "the oplog-recording primary)",
    )
    cluster.add_argument("snapshot", metavar="SNAPSHOT_DIR",
                         help="snapshot directory every fleet member "
                              "serves (written by 'domainnet snapshot "
                              "build')")
    cluster.add_argument("--replicas", type=int, default=2,
                         help="fleet size including the primary "
                              "(default 2)")
    cluster.add_argument("--host", default="127.0.0.1",
                         help="bind address for the router and the "
                              "replicas (default 127.0.0.1)")
    cluster.add_argument("--port", type=int, default=8080,
                         help="router TCP port; 0 picks an ephemeral "
                              "port and prints it (default 8080)")
    cluster.add_argument("--base-port", type=int, default=0,
                         help="first replica port; replica i binds "
                              "base-port+i (default 0: each replica "
                              "picks an ephemeral port)")
    cluster.add_argument("--auth-token", default=None,
                         help="bearer token required by every replica "
                              "and forwarded by the router (default: "
                              "the DOMAINNET_TOKEN environment "
                              "variable)")
    cluster.add_argument("--max-lag", type=int, default=1000,
                         help="oplog entries a replica may fall behind "
                              "before it re-bootstraps from the "
                              "snapshot instead of replaying "
                              "(default 1000)")
    cluster.add_argument("--serve-arg", action="append", default=None,
                         metavar="FLAG",
                         help="extra 'domainnet serve' flag passed to "
                              "every replica (repeatable, e.g. "
                              "--serve-arg=--max-concurrent "
                              "--serve-arg=8)")

    stats = commands.add_parser(
        "stats", help="print catalog statistics for a CSV lake"
    )
    stats.add_argument("directory")

    generate = commands.add_parser(
        "generate", help="write a benchmark lake as CSV files"
    )
    generate.add_argument("benchmark", choices=("sb", "tus"))
    generate.add_argument("directory")
    generate.add_argument("--seed", type=int, default=0)

    forge = commands.add_parser(
        "forge",
        help="write a homoglyph-forged benchmark lake as CSV files "
             "plus its ground-truth manifest",
    )
    forge.add_argument("benchmark", choices=("sb", "tus"),
                       help="base lake: SB, or the homograph-free "
                            "TUS-I lake")
    forge.add_argument("directory")
    forge.add_argument("--forgeries", type=int, default=10,
                       help="number of planted skeleton collisions "
                            "(default 10)")
    forge.add_argument("--meanings", type=int, default=2,
                       help="domains per collision: one anchor plus "
                            "meanings-1 forged variants (default 2)")
    forge.add_argument("--styles", default=None, metavar="STYLES",
                       help="comma-separated subset of "
                            "greek,cyrillic,fullwidth,leet "
                            "(default: all)")
    forge.add_argument("--seed", type=int, default=0)

    snapshot = commands.add_parser(
        "snapshot",
        help="build or inspect on-disk snapshots (fast server restarts)",
    )
    snapshot_commands = snapshot.add_subparsers(
        dest="snapshot_command", required=True
    )
    build = snapshot_commands.add_parser(
        "build",
        help="build a lake's graph and write a versioned snapshot",
    )
    build.add_argument("directory", help="directory of *.csv tables")
    build.add_argument("-o", "--output", required=True,
                       help="snapshot directory to write (atomically "
                            "replaced if it already exists)")
    build.add_argument("--warm", metavar="MEASURES", default=None,
                       help="comma-separated measures (e.g. "
                            "'betweenness,lcc') to score now so the "
                            "snapshot ships precomputed rankings")
    build.add_argument("--sample", type=int, default=None,
                       help="BC source samples for --warm betweenness "
                            "(default: exact)")
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--no-prune", action="store_true",
                       help="keep values that occur only once in the lake")
    info = snapshot_commands.add_parser(
        "info", help="print a snapshot's manifest (verifies hashes)"
    )
    info.add_argument("path", help="snapshot directory")
    info.add_argument("--no-verify", action="store_true",
                      help="skip content-hash verification (sizes and "
                           "format version are still checked)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "scan":
        return _cmd_scan(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "snapshot":
        if args.snapshot_command == "build":
            return _cmd_snapshot_build(args)
        return _cmd_snapshot_info(args)
    if args.command == "forge":
        return _cmd_forge(args)
    return _cmd_generate(args)


def _execution_from_flags(args, keep_pool: bool) -> Optional[ExecutionConfig]:
    """Build an ExecutionConfig from the shared CLI execution flags.

    ``keep_pool`` requests a persistent worker pool; with ``--backend``
    unset it forces the process backend so a pool actually exists to
    keep — including under ``--jobs 1``, where ``auto`` would silently
    fall back to serial and ignore the flag.
    """
    if not (keep_pool or args.jobs is not None or args.backend != "auto"
            or args.chunk_size is not None):
        return None
    backend = args.backend
    if keep_pool and backend == "auto":
        backend = "process"
    return ExecutionConfig(
        backend=backend,
        n_jobs=args.jobs,
        chunk_size=args.chunk_size,
        persistent=keep_pool,
    )


def _scan_execution(args) -> Optional[ExecutionConfig]:
    """The scan command's execution flags (``--serve-pool`` implies
    ``--keep-pool``)."""
    return _execution_from_flags(
        args, keep_pool=args.keep_pool or args.serve_pool is not None
    )


def _print_listing(index, response, args, annotate: bool) -> None:
    """Human listing of one response's top candidates."""
    top = response.ranking.top(args.top)
    verdicts = {}
    if annotate and args.errors:
        verdicts = index.classify_errors([e.value for e in top])
    for entry in top:
        line = f"{entry.rank:>4}. {entry.score:.6f}  {entry.value!r}"
        if annotate and args.meanings:
            estimate = index.estimate_meanings(entry.value)
            line += f"  [{estimate.num_meanings} meaning(s)]"
        verdict = verdicts.get(entry.value)
        if verdict is not None:
            line += f"  [{verdict.kind}]"
        print(line)


def _cmd_scan(args) -> int:
    if args.json and (args.meanings or args.errors):
        print("--json cannot be combined with --meanings/--errors "
              "(the DetectResponse payload does not carry them)",
              file=sys.stderr)
        return 2
    if args.serve_pool is not None and (args.meanings or args.errors):
        print("--serve-pool cannot be combined with --meanings/--errors "
              "(annotations apply to a single-measure listing)",
              file=sys.stderr)
        return 2
    serve_measures = None
    if args.serve_pool is not None:
        serve_measures = [m.strip() for m in args.serve_pool.split(",")
                          if m.strip()]
        unknown = sorted(set(serve_measures) - set(available_measures()))
        if not serve_measures or unknown:
            print(f"--serve-pool expects a comma-separated subset of "
                  f"{', '.join(available_measures())}", file=sys.stderr)
            return 2
    lake = load_lake(args.directory)
    if len(lake) == 0:
        print("no CSV tables found", file=sys.stderr)
        return 1
    try:
        execution = _scan_execution(args)
    except ValueError as error:
        print(f"invalid execution options: {error}", file=sys.stderr)
        return 2
    # The `with` block releases the persistent pool (when --keep-pool /
    # --serve-pool forked one) even if a measure fails mid-scan.
    with HomographIndex(
        lake, prune_candidates=not args.no_prune, execution=execution
    ) as index:
        graph = index.graph

        sample = args.sample
        if sample is None and args.measure == "betweenness":
            if graph.num_nodes > 20_000:
                sample = max(1000, graph.num_nodes // 100)

        if serve_measures is not None:
            return _scan_serve(index, serve_measures, sample, args)

        response = index.detect(
            measure=args.measure, sample_size=sample, seed=args.seed
        )

        if args.json:
            print(response.to_json(indent=2, top=args.top))
            return 0

        print(f"lake: {len(lake)} tables, {lake.num_attributes} attributes")
        print(f"graph: {graph.num_values} candidate values, "
              f"{graph.num_attributes} attributes, {graph.num_edges} edges")
        print(f"measure: {args.measure} "
              f"({'exact' if sample is None else f'{sample} samples'}) "
              f"in {response.measure_seconds:.1f}s\n")
        _print_listing(index, response, args, annotate=True)
    return 0


def _scan_serve(index, measures: List[str], sample, args) -> int:
    """Batch-score several measures on the index's shared pool."""
    from .api import DetectRequest

    requests = [
        DetectRequest(
            measure=measure,
            sample_size=sample if measure == "betweenness" else None,
            seed=args.seed,
        )
        for measure in measures
    ]
    responses = index.detect_many(requests)
    if args.json:
        import json as _json

        print(_json.dumps(
            [r.to_dict(top=args.top) for r in responses],
            indent=2, sort_keys=True,
        ))
        return 0
    for measure, response in zip(measures, responses):
        print(f"== {measure} "
              f"({response.measure_seconds:.1f}s"
              f"{', cached' if response.cached else ''}) ==")
        _print_listing(index, response, args, annotate=False)
        print()
    return 0


def _lake_name_from_directory(directory: str, taken) -> str:
    """Derive a URL-safe, unique lake name from a directory path."""
    import os
    import re as _re

    base = os.path.basename(os.path.normpath(directory)) or "lake"
    name = _re.sub(r"[^A-Za-z0-9._-]", "-", base).lstrip("._-") or "lake"
    name = name[:60]
    candidate, counter = name, 1
    while candidate in taken:
        counter += 1
        candidate = f"{name}-{counter}"
    return candidate


def _serve_mounts(args) -> Optional[List]:
    """Resolve the serve command's ``(name, directory)`` mount list.

    Positional directories mount first (under their basenames);
    ``--lake NAME=DIR`` entries follow, under their explicit names.
    Returns ``None`` (with a message on stderr) when the flags are
    unusable.
    """
    mounts: List = []
    taken = set()
    for directory in args.directories:
        name = _lake_name_from_directory(directory, taken)
        mounts.append((name, directory))
        taken.add(name)
    for entry in args.lake or []:
        name, separator, directory = entry.partition("=")
        if not separator or not name or not directory:
            print(f"--lake expects NAME=DIR, got {entry!r}",
                  file=sys.stderr)
            return None
        if name in taken:
            print(f"duplicate lake name {name!r}", file=sys.stderr)
            return None
        mounts.append((name, directory))
        taken.add(name)
    for path in args.snapshot or []:
        name = _lake_name_from_directory(path, taken)
        mounts.append((name, path))
        taken.add(name)
    if not mounts:
        print("nothing to serve: pass directories, --lake NAME=DIR, "
              "and/or --snapshot PATH",
              file=sys.stderr)
        return None
    return mounts


def _cmd_serve(args) -> int:
    """Serve the mounted lakes over HTTP until interrupted, then drain."""
    import os

    from .api import Workspace, validate_lake_name
    from .serving.http import HomographHTTPServer
    from .snapshot import SnapshotError, is_snapshot, jobs_dir

    mounts = _serve_mounts(args)
    if mounts is None:
        return 2
    try:
        execution = _execution_from_flags(args, keep_pool=args.keep_pool)
    except ValueError as error:
        print(f"invalid execution options: {error}", file=sys.stderr)
        return 2
    options = {}
    if args.max_concurrent is not None:
        options["max_concurrent"] = args.max_concurrent
    if args.retry_after is not None:
        options["retry_after"] = args.retry_after
    if args.lake_quota is not None:
        if args.lake_quota < 0:
            print("--lake-quota must be >= 0 (0 turns fairness off)",
                  file=sys.stderr)
            return 2
        options["lake_quota"] = args.lake_quota
    if args.request_timeout is not None:
        if args.request_timeout <= 0:
            print("--request-timeout must be > 0 seconds",
                  file=sys.stderr)
            return 2
        options["request_timeout"] = args.request_timeout
    if args.job_ttl is not None:
        if args.job_ttl <= 0:
            print("--job-ttl must be > 0 seconds", file=sys.stderr)
            return 2
        options["job_ttl"] = args.job_ttl
    token = args.auth_token
    if token is None:
        token = os.environ.get("DOMAINNET_TOKEN") or None
    if token is not None:
        options["auth_token"] = token
    workspace = Workspace(
        execution=execution, prune_candidates=not args.no_prune
    )
    # (name, snapshot_path) pairs for snapshot mounts: they get fast
    # mmap loading now and, with --save-on-exit, a write-back later.
    snapshot_mounts: List = []
    try:
        for name, directory in mounts:
            validate_lake_name(name)
            if is_snapshot(directory):
                workspace.attach(name, directory)
                snapshot_mounts.append((name, directory))
                continue
            lake = load_lake(directory)
            if len(lake) == 0:
                print(f"no CSV tables found in {directory}",
                      file=sys.stderr)
                workspace.close()
                return 1
            workspace.attach(name, lake)
    except SnapshotError as error:
        workspace.close()
        print(f"cannot mount snapshot: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        # Missing / unreadable directory: a message, not a traceback.
        workspace.close()
        print(str(error), file=sys.stderr)
        return 1
    except ValueError as error:
        workspace.close()
        print(str(error), file=sys.stderr)
        return 2
    if args.record_oplog:
        if not snapshot_mounts:
            workspace.close()
            print("--record-oplog requires at least one --snapshot "
                  "mount (the oplog lives inside the snapshot "
                  "directory)", file=sys.stderr)
            return 2
        from .cluster.replicate import (
            MutationLog,
            OplogError,
            replay_entry,
        )
        from .snapshot import oplog_path

        oplogs = {}
        try:
            for name, path in snapshot_mounts:
                log = MutationLog(oplog_path(path))
                replayed = 0
                for entry in log.entries():
                    if replay_entry(workspace.get(name), entry):
                        replayed += 1
                if replayed:
                    print(f"replayed {replayed} oplog mutation(s) "
                          f"into lake {name!r}", flush=True)
                oplogs[name] = log
        except OplogError as error:
            for log in oplogs.values():
                log.close()
            workspace.close()
            print(f"cannot recover oplog: {error}", file=sys.stderr)
            return 1
        options["oplogs"] = oplogs
    job_dir = args.job_dir
    if job_dir is None and snapshot_mounts:
        # Finished jobs ride the first snapshot's jobs/ spill area, so
        # a snapshot-served deployment survives restarts by default.
        spill = jobs_dir(snapshot_mounts[0][1])
        job_dir = None if spill is None else str(spill)
    if job_dir is not None:
        options["job_dir"] = job_dir
    try:
        server = HomographHTTPServer(
            workspace, (args.host, args.port), **options
        )
    except OSError as error:
        workspace.close()
        for log in options.get("oplogs", {}).values():
            log.close()
        print(f"cannot bind {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 1
    host, port = server.server_address[:2]
    listing = ", ".join(
        f"{name}: {len(workspace.get(name).lake)} tables"
        for name in workspace.names()
    )
    print(f"serving {len(workspace)} lake(s) ({listing}) "
          f"on http://{host}:{port} "
          f"(POST /lakes/<name>/detect, GET /lakes, GET /healthz"
          f"{', bearer auth on' if token is not None else ''})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("interrupt: draining in-flight requests", flush=True)
    finally:
        save = args.save_on_exit and snapshot_mounts
        # With a write-back pending the workspace must outlive the
        # drain; otherwise drain() owns the whole teardown as before.
        server.drain(close_index=not save)
        if save:
            for name, path in snapshot_mounts:
                try:
                    workspace.get(name).save(path)
                    print(f"saved snapshot {name!r} -> {path}",
                          flush=True)
                except Exception as error:  # noqa: BLE001 - report all
                    print(f"failed to save snapshot {name!r}: {error}",
                          file=sys.stderr)
            workspace.close()
            server.jobs.drain(timeout=30.0)
    return 0


def _cmd_cluster(args) -> int:
    """Run a replicated fleet plus router until interrupted."""
    import os
    import time

    from .cluster import start_cluster
    from .snapshot import is_snapshot

    if args.replicas < 1:
        print("--replicas must be >= 1", file=sys.stderr)
        return 2
    if not is_snapshot(args.snapshot):
        print(f"{args.snapshot} is not a snapshot directory "
              f"(build one with 'domainnet snapshot build')",
              file=sys.stderr)
        return 2
    token = args.auth_token
    if token is None:
        token = os.environ.get("DOMAINNET_TOKEN") or None
    try:
        supervisor, router = start_cluster(
            args.snapshot,
            replicas=args.replicas,
            host=args.host,
            port=args.port,
            token=token,
            base_port=args.base_port,
            max_lag=args.max_lag,
            serve_args=args.serve_arg or [],
        )
    except OSError as error:
        print(f"cannot start cluster: {error}", file=sys.stderr)
        return 1
    print(f"cluster of {args.replicas} member(s) over "
          f"{args.snapshot} on {router.url} "
          f"(reads balance across replicas, writes pin to the "
          f"primary, GET /cluster/stats"
          f"{', bearer auth on' if token is not None else ''})",
          flush=True)
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("interrupt: draining the router, stopping the fleet",
              flush=True)
    finally:
        router.drain()
        supervisor.stop()
    return 0


def _cmd_snapshot_build(args) -> int:
    """Build a lake's graph (optionally score it) and write a snapshot."""
    warm: List[str] = []
    if args.warm is not None:
        warm = [m.strip() for m in args.warm.split(",") if m.strip()]
        unknown = sorted(set(warm) - set(available_measures()))
        if unknown:
            print(f"--warm expects a comma-separated subset of "
                  f"{', '.join(available_measures())}", file=sys.stderr)
            return 2
    lake = load_lake(args.directory)
    if len(lake) == 0:
        print("no CSV tables found", file=sys.stderr)
        return 1
    with HomographIndex(
        lake, prune_candidates=not args.no_prune
    ) as index:
        graph = index.graph
        for measure in warm:
            # Only a sampled betweenness run carries sampling fields:
            # they are part of the cache key, so warming with them set
            # would never match a client's default request.
            sample = args.sample if measure == "betweenness" else None
            response = index.detect(
                measure=measure,
                sample_size=sample,
                seed=args.seed if sample is not None else None,
            )
            print(f"warmed {measure} in "
                  f"{response.measure_seconds:.1f}s")
        manifest = index.save(args.output)
    print(f"wrote snapshot to {args.output}: "
          f"{len(lake)} tables, {graph.num_values} values, "
          f"{graph.num_edges} edges, "
          f"{manifest.get('scores', 0)} precomputed ranking(s)")
    return 0


def _cmd_snapshot_info(args) -> int:
    """Print (and by default hash-verify) a snapshot's manifest."""
    import json as _json

    from .snapshot import SnapshotError, load_manifest

    try:
        manifest = load_manifest(args.path, verify=not args.no_verify)
    except SnapshotError as error:
        print(f"{type(error).__name__}: {error}", file=sys.stderr)
        return 1
    print(_json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def _cmd_stats(args) -> int:
    lake = load_lake(args.directory)
    stats = compute_statistics(lake, args.directory)
    print(format_statistics_table([stats]))
    return 0


def _cmd_forge(args) -> int:
    """Write a homoglyph-forged benchmark lake plus its ground truth."""
    import json as _json
    import os

    from .bench.injection import (
        ForgeConfig,
        InjectionError,
        forge_homoglyphs,
        remove_homographs,
    )
    from .core.confusables import STYLES

    styles = STYLES
    if args.styles is not None:
        styles = tuple(
            s.strip() for s in args.styles.split(",") if s.strip()
        )
        unknown = sorted(set(styles) - set(STYLES))
        if not styles or unknown:
            print(f"--styles expects a comma-separated subset of "
                  f"{', '.join(STYLES)}", file=sys.stderr)
            return 2
    if args.benchmark == "sb":
        from .bench.synthetic import SBConfig, generate_sb

        dataset = generate_sb(SBConfig(seed=args.seed))
        lake = dataset.lake
        groups = dataset.ground_truth.attribute_groups
        # SB's planted natural homographs stay out of the forge so the
        # manifest labels exactly the confusable collisions.
        exclude = set(dataset.homographs)
    else:
        from .bench.tus import TUSConfig, generate_tus

        tus = generate_tus(TUSConfig.small(seed=args.seed))
        lake, groups = remove_homographs(tus)
        exclude = set()
    config = ForgeConfig(
        num_forgeries=args.forgeries,
        meanings=args.meanings,
        styles=styles,
        seed=args.seed,
    )
    try:
        forged = forge_homoglyphs(lake, groups, config, exclude=exclude)
    except InjectionError as error:
        print(f"cannot forge: {error}", file=sys.stderr)
        return 1
    paths = dump_lake(forged.lake, args.directory)
    manifest_path = os.path.join(args.directory, "forge_truth.json")
    with open(manifest_path, "w", encoding="utf-8") as handle:
        _json.dump(forged.to_manifest(), handle, indent=2,
                   sort_keys=True, ensure_ascii=False)
        handle.write("\n")
    print(f"wrote {len(paths)} tables to {args.directory}")
    print(f"{len(forged.forgeries)} forged variants across "
          f"{len(forged.anchors)} anchors "
          f"(ground truth: {manifest_path})")
    return 0


def _cmd_generate(args) -> int:
    if args.benchmark == "sb":
        from .bench.synthetic import SBConfig, generate_sb

        dataset = generate_sb(SBConfig(seed=args.seed))
    else:
        from .bench.tus import TUSConfig, generate_tus

        dataset = generate_tus(TUSConfig.small(seed=args.seed))
    paths = dump_lake(dataset.lake, args.directory)
    print(f"wrote {len(paths)} tables to {args.directory}")
    print(f"{len(dataset.ground_truth.homographs)} ground-truth homographs")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
